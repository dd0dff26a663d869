import math
from dataclasses import replace

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
    mc_price_bs,
    mc_price_heston_euler,
    mc_price_hybrid,
    risk_neutral_map,
    simulate_average_rates,
    simulate_heston_terminal,
)
from hestoncir import heston, mc
from hestoncir.numerics import QuadratureResult


class TestMcConfig:
    @pytest.mark.parametrize("field, value", [
        ("paths", 1e3), ("steps", 1e1), ("seed", 1.0), ("paths", True),
        ("steps", True),
    ])
    def test_non_integer_count_names_the_field(self, field, value):
        # a float count, even an integral one, or a bool is rejected before
        # any path is drawn
        counts = dict(paths=100, steps=10, seed=0)
        counts[field] = value
        with pytest.raises(ValueError, match="%s must be an integer" % field):
            McConfig(**counts)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, 1.0, None])
    def test_non_bool_antithetic_names_the_field(self, value):
        # "false" is truthy, so it used to turn antithetic sampling on
        with pytest.raises(ValueError, match="antithetic must be a bool"):
            McConfig(100, 10, antithetic=value)

    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
    def test_bools_are_antithetic_flags(self, value):
        assert McConfig(100, 10, antithetic=value).antithetic == value

    @pytest.mark.parametrize("paths", [2, 3])
    def test_antithetic_needs_two_mirrored_pairs(self, paths):
        # 2 or 3 paths held one pair, whose standard error was NaN
        with pytest.raises(ValueError, match="paths must be at least 4"):
            McConfig(paths, 10, antithetic=True)
        assert McConfig(paths, 10).paths == paths

    @pytest.mark.parametrize("paths", [4, 5])
    def test_two_mirrored_pairs_give_a_finite_error(self, fig1_heston,
                                                    atm_option, paths):
        est = mc_price_heston_euler(atm_option, fig1_heston, 0.03,
                                    McConfig(paths, 2, 5, antithetic=True))
        assert est.paths == 4
        assert math.isfinite(est.std_error) and est.std_error > 0.0

    def test_numpy_integers_are_counts(self):
        mc = McConfig(np.int64(100), np.int32(10), np.int64(7))
        assert (mc.paths, mc.steps, mc.seed) == (100, 10, 7)


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

    @pytest.mark.parametrize("name", ["dt", "kappa", "theta", "sigma"])
    def test_nan_argument_names_it(self, name):
        # every comparison with NaN is false, so "dt <= 0" let NaN through
        args = dict(dt=0.25, kappa=1.8, theta=0.03, sigma=0.1)
        args[name] = math.nan
        with pytest.raises(ValueError, match="^%s must be" % name):
            cir_exact_step(0.035, rng=RngStream(0), **args)


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

    def test_antithetic_names_the_field(self, fig1_rate):
        # the rate draws take no normals to mirror; the even-block rule
        # would only drop an odd last path
        with pytest.raises(ValueError, match="antithetic"):
            simulate_average_rates(fig1_rate, 1.0,
                                   McConfig(101, 5, antithetic=True))

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
    # fig. 1, and the mc_verify market (CURVE_MARKETS "band") at 20 and
    # 50 steps; the same seed repeats the estimate bit for bit
    @pytest.mark.parametrize("market, paths, steps, seed, z_max", [
        ("fig1", 10_000, 500, 41, 3.0),
        ("band", 4_000, 20, 1, 4.0),
        ("band", 4_000, 50, 5, 4.0),
    ], ids=["fig1", "band-20", "band-50"])
    def test_brackets_closed_form(self, fig1_heston, fig1_rate, atm_option,
                                  market, paths, steps, seed, z_max):
        opt, p, rp = (atm_option, fig1_heston, fig1_rate) \
            if market == "fig1" else _curve_market(market)
        mc = McConfig(paths=paths, steps=steps, seed=seed)
        est = mc_price_hybrid(opt, p, rp, mc)
        ref = hybrid_call_price(opt, p, rp)
        assert abs(est.mean - ref) <= z_max * est.std_error
        assert mc_price_hybrid(opt, p, rp, mc) == est

    @pytest.mark.parametrize("sigma_r", [0.1, 0.0])
    def test_antithetic_names_the_field_before_any_draw(
            self, fig1_heston, atm_option, monkeypatch, sigma_r):
        # the averaged rate draws no normals to mirror, so the flag would
        # have no effect; neither a rate path nor a price is formed
        monkeypatch.setattr(mc, "simulate_average_rates", None)
        monkeypatch.setattr(mc, "heston_call_price", None)
        rp = CirRateParams(kappa_r=1.8, theta_r=0.03, sigma_r=sigma_r,
                           r0=0.035)
        with pytest.raises(ValueError, match="antithetic"):
            mc_price_hybrid(atm_option, fig1_heston, rp,
                            McConfig(paths=100, steps=10, antithetic=True))

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


def _two_normal_euler(p, mu, T, paths, steps, seed, antithetic=False):
    """Terminal ln(S_T/S0) from full-truncation Euler with two normals a
    step: Z0 drives the spot and rho Z0 + rho_c Z1 the variance.  With
    antithetic sampling both normals are mirrored, path i pairing with
    path i + paths/2.  A reference for the law of the sampler, which
    sums the spot's orthogonal noise exactly."""
    gen = RngStream(seed, 0).generator
    dt = T / steps
    rho_c = math.sqrt(1.0 - p.rho * p.rho)
    x, v = np.zeros(paths), np.full(paths, p.v0)
    for _ in range(steps):
        if antithetic:
            zb = gen.standard_normal((2, paths // 2))
            z = np.concatenate([zb, -zb], axis=1)
        else:
            z = gen.standard_normal((2, paths))
        vp = np.maximum(v, 0.0)
        sq = np.sqrt(vp * dt)
        x += (mu - 0.5 * vp) * dt + sq * z[0]
        v += p.kappa * (p.theta - vp) * dt \
            + p.sigma * sq * (p.rho * z[0] + rho_c * z[1])
    return x


def _centred_squares(x):
    return (x - x.mean()) ** 2


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

        def normals():
            if antithetic:
                wb = gen.standard_normal(n // 2)
                return np.concatenate([wb, -wb])
            return gen.standard_normal(n)

        v, sv, sw = np.full(n, p.v0), np.zeros(n), np.zeros(n)
        rho_c = math.sqrt(1.0 - p.rho * p.rho)
        for _ in range(mc.steps):
            w = normals()
            vp = np.maximum(v, 0.0)
            sv += vp
            dw = np.sqrt(vp) * w
            sw += dw
            v = v + p.kappa * dt * (p.theta - vp) \
                + p.sigma * math.sqrt(dt) * dw
        x = p.mu * T - 0.5 * dt * sv + p.rho * math.sqrt(dt) * sw \
            + rho_c * np.sqrt(dt * sv) * normals()
        assert np.array_equal(simulate_heston_terminal(p, p.mu, T, mc), x)

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("rho", [-0.9, 0.5])
    def test_terminal_law_matches_two_normal_scheme(self, rho, antithetic):
        # Summing the spot's orthogonal noise given the variance path
        # leaves each path's law that of the scheme that draws it step
        # by step.  Antithetic pairs are not independent, so only the
        # first half of the block, one path of each pair, is compared.
        p = HestonParams(mu=0.03, kappa=1.5, theta=0.04, sigma=0.9,
                         rho=rho, v0=0.04)
        n, steps, T = 40_000, 40, 1.0
        got = simulate_heston_terminal(
            p, p.mu, T, McConfig(n, steps, seed=31, antithetic=antithetic))
        if antithetic:
            got = got[:n // 2]
        ref = _two_normal_euler(p, p.mu, T, n, steps, seed=32)
        assert stats.ks_2samp(got, ref).pvalue > 1e-3
        for a, b in ((got, ref), (_centred_squares(got),
                                  _centred_squares(ref))):
            se = math.sqrt(a.var() / a.size + b.var() / b.size)
            assert abs(a.mean() - b.mean()) <= 4.0 * se

    def test_antithetic_error_no_larger_than_two_normal_pairs(self):
        # Both members of a pair now carry opposite orthogonal sums
        # where the two-normal scheme's were only partly anticorrelated,
        # so its pair-averaged error is no larger, within the sampling
        # error of the two standard errors (3 SE of their difference).
        p = HestonParams(mu=0.03, kappa=1.5, theta=0.04, sigma=0.9,
                         rho=-0.9, v0=0.04)
        opt = VanillaOption(100.0, 100.0, 1.0)
        n, steps = 40_000, 40
        est = mc_price_heston_euler(opt, p, p.mu,
                                    McConfig(n, steps, seed=33,
                                             antithetic=True))
        x = _two_normal_euler(p, p.mu, 1.0, n, steps, seed=34,
                              antithetic=True)
        pay = math.exp(-p.mu) * np.maximum(100.0 * np.exp(x) - 100.0, 0.0)
        pairs = 0.5 * (pay[:n // 2] + pay[n // 2:])
        ref_se = pairs.std(ddof=1) / math.sqrt(pairs.size)
        # the relative error of a standard deviation estimate is
        # sqrt((m4 / s^4 - 1) / (4 n)); the new estimate's is alike
        d = pairs - pairs.mean()
        rel = math.sqrt((np.mean(d ** 4) / np.mean(d * d) ** 2 - 1.0)
                        / (4.0 * pairs.size))
        assert est.std_error <= ref_se * (1.0 + 3.0 * math.sqrt(2.0) * rel)

    def test_one_step_antithetic_pairs_cancel_both_normals(self):
        # With one step v+ = v0 on every path, so a pair's W and Z terms
        # cancel only if both normals are mirrored.
        p = HestonParams(mu=0.03, kappa=1.5, theta=0.04, sigma=0.9,
                         rho=-0.7, v0=0.04)
        T = 1.5
        x = simulate_heston_terminal(p, p.mu, T,
                                     McConfig(1_000, 1, seed=35,
                                              antithetic=True))
        pair = x[:500] + x[500:]
        want = 2.0 * (p.mu * T - 0.5 * p.v0 * T)
        assert np.max(np.abs(pair - want)) <= 1e-15
        assert np.std(x) > 0.1

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

    def test_risk_premium_reaches_the_euler_oracle(self):
        # the record holds the mapped kappa and theta, so the scheme steps
        # the measure the closed form prices; it stepped the real-world
        # pair before and missed the closed form 11.764 at z = -26
        p = HestonParams(mu=0.03, kappa=1.0, theta=0.04, sigma=0.5,
                         rho=-0.5, v0=0.09, lam=2.0)
        kappa, theta = risk_neutral_map(1.0, 0.04, 2.0)
        twin = HestonParams(mu=0.03, kappa=kappa, theta=theta, sigma=0.5,
                            rho=-0.5, v0=0.09, lam=0.0)
        mc = McConfig(paths=20_000, steps=50, seed=3)
        assert simulate_heston_terminal(p, 0.03, 2.0, mc).tobytes() == \
            simulate_heston_terminal(twin, 0.03, 2.0, mc).tobytes()
        opt = VanillaOption(100.0, 100.0, 2.0)
        est = mc_price_heston_euler(opt, p, 0.03, mc)
        ref = heston_call_price(opt, p, 0.03)
        assert ref == pytest.approx(11.764, abs=5e-4)
        assert abs(est.mean - ref) <= 3.0 * est.std_error

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

    # fig. 1, and the mc_verify market (CURVE_MARKETS "band") antithetic
    # and plain at rho = -0.9, where the spot's orthogonal noise is
    # smallest; the same seed repeats the estimate bit for bit
    @pytest.mark.parametrize(
        "market, rho, paths, steps, seed, antithetic, z_max", [
            ("fig1", None, 200_000, 250, 16, False, 3.5),
            ("band", None, 4_000, 50, 5, True, 4.0),
            ("band", -0.9, 4_000, 50, 6, False, 4.0),
        ], ids=["fig1", "band-antithetic", "band-rho-0.9"])
    def test_prices_heston_within_error_bars(self, fig1_heston, atm_option,
                                             market, rho, paths, steps,
                                             seed, antithetic, z_max):
        opt, p = (atm_option, fig1_heston) if market == "fig1" \
            else _curve_market(market)[:2]
        if rho is not None:
            p = replace(p, rho=rho)
        mc = McConfig(paths=paths, steps=steps, seed=seed,
                      antithetic=antithetic)
        est = mc_price_heston_euler(opt, p, 0.03, mc)
        ref = heston_call_price(opt, p, 0.03)
        assert abs(est.mean - ref) <= z_max * est.std_error
        assert mc_price_heston_euler(opt, p, 0.03, mc) == est

    def test_antithetic_blocks_are_even(self, fig1_heston, atm_option):
        # 131,075 paths are blocks of 65,536, 65,536 and 3; mirrored
        # halves drop the last block's odd path, and only that one
        mc = McConfig(paths=131_075, steps=1, seed=19, antithetic=True)
        x = simulate_heston_terminal(fig1_heston, 0.03, 1.0, mc)
        assert x.size == 131_074
        assert np.array_equal(x[:65_536], simulate_heston_terminal(
            fig1_heston, 0.03, 1.0, replace(mc, paths=65_536)))
        assert mc_price_heston_euler(atm_option, fig1_heston, 0.03,
                                     mc).paths == 131_074

    def test_antithetic_reduces_error(self, fig1_heston, atm_option):
        plain = mc_price_heston_euler(atm_option, fig1_heston, 0.03,
                                      McConfig(paths=100_000, steps=50,
                                               seed=17))
        anti = mc_price_heston_euler(atm_option, fig1_heston, 0.03,
                                     McConfig(paths=100_000, steps=50,
                                              seed=17, antithetic=True))
        assert anti.std_error < plain.std_error


def _lognormal_estimate(opt, r, vol, z):
    """The discounted-payoff mean and ddof-1 standard error of exact
    lognormal terminal spots, as one plain array expression."""
    st = opt.s0 * np.exp((r - 0.5 * vol * vol) * opt.maturity
                         + vol * math.sqrt(opt.maturity) * z)
    pay = np.maximum(st - opt.strike, 0.0) if opt.kind == "call" \
        else np.maximum(opt.strike - st, 0.0)
    pay *= math.exp(-r * opt.maturity)
    return (float(np.mean(pay)),
            float(np.std(pay, ddof=1) / math.sqrt(len(pay))))


class TestBlackScholesMc:
    def test_one_block_is_the_plain_array_expression(self, atm_option):
        z = RngStream(29, 0).generator.standard_normal(50_000)
        est = mc_price_bs(atm_option, 0.03, 0.2, McConfig(50_000, 1, 29))
        assert (est.mean, est.std_error) == \
            _lognormal_estimate(atm_option, 0.03, 0.2, z)
        assert (est.paths, est.seed) == (50_000, 29)

    def test_blocks_draw_from_their_own_streams(self, atm_option):
        # 70,000 paths: 65,536 normals of stream 0, then 4,464 of stream 1
        z = np.concatenate([RngStream(31, i).generator.standard_normal(n)
                            for i, n in enumerate((65_536, 4_464))])
        est = mc_price_bs(atm_option, 0.03, 0.2, McConfig(70_000, 1, 31))
        assert (est.mean, est.std_error) == \
            _lognormal_estimate(atm_option, 0.03, 0.2, z)

    def test_antithetic_names_the_field(self, atm_option):
        with pytest.raises(ValueError, match="antithetic"):
            mc_price_bs(atm_option, 0.03, 0.2,
                        McConfig(100, 1, antithetic=True))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
class TestNonFiniteRates:
    """Each route used to return a NaN estimate or inf samples."""

    def test_euler_price_names_r(self, fig1_heston, atm_option, bad):
        with pytest.raises(ValueError, match="^rate r must be finite"):
            mc_price_heston_euler(atm_option, fig1_heston, bad,
                                  McConfig(100, 4, 1))

    def test_terminal_samples_name_mu(self, fig1_heston, bad):
        with pytest.raises(ValueError, match="^mu must be finite"):
            simulate_heston_terminal(fig1_heston, bad, 1.0,
                                     McConfig(100, 4, 1))

    @pytest.mark.parametrize("name", ["r", "vol"])
    def test_lognormal_price_names_r_and_vol(self, atm_option, bad, name):
        args = {"r": 0.03, "vol": 0.2, name: bad}
        with pytest.raises(ValueError, match="^(rate )?%s must be finite"
                                             % name):
            mc_price_bs(atm_option, args["r"], args["vol"],
                        McConfig(100, 1, 1))


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
            heston_call_price(opt, p, rates, QuadratureConfig(max_evals=90))
        assert "T=1.2, r in [%.6g, %.6g]" % (rates.min(), rates.max()) \
            in str(err.value)

    def test_a_column_with_a_negative_call_names_T_and_the_rates(
            self, monkeypatch):
        # one column's integral, 2 pi times its put, is spoiled into a
        # call below -K; the other 20 are left as computed
        opt, p, rp = _curve_market("feller")
        _, rates = _curve_rates(opt, rp)
        real = heston.integrate_half_line

        def spoiled(f, cfg, **kwargs):
            res = real(f, cfg, **kwargs)
            value = res.value.copy()
            value[7] -= 2.0 * np.pi * (opt.s0 + opt.strike)
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

        def counting(f, cfg, **kwargs):
            integrals.append(f)
            return real_integral(f, cfg, **kwargs)

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
