import cmath
import math
import time
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from hestoncir import heston
from hestoncir import (
    HestonParams,
    PricingError,
    QuadratureConfig,
    VanillaOption,
    big_m_of_l,
    big_n_of_l,
    bs_price,
    critical_moments,
    heston_call_price,
    heston_price_with_diagnostics,
    integrate_interval,
    marginal_density,
    marginal_density_grid,
    nu_of_l,
    omega_of_l,
    price_integrand,
    price_via_density,
)


def _cf_reference_call(opt, p, r):
    """Independent oracle: two-probability characteristic-function pricer.

    Uses the standard log-spot characteristic function of the variance
    process (the "little trap" branch-stable form) and two half-line
    Gil-Pelaez integrals, evaluated with scipy's QUADPACK.  Shares no
    code with the single-integral production pricer.
    """
    s0, k, t = opt.s0, opt.strike, opt.maturity
    x = math.log(s0)

    def phi(u):
        iu = 1j * u
        d = cmath.sqrt((p.rho * p.sigma * iu - p.kappa) ** 2
                       + p.sigma ** 2 * (iu + u * u))
        g = (p.kappa - p.rho * p.sigma * iu - d) / \
            (p.kappa - p.rho * p.sigma * iu + d)
        edt = cmath.exp(-d * t)
        c = (r * iu * t + p.kappa * p.theta / p.sigma ** 2
             * ((p.kappa - p.rho * p.sigma * iu - d) * t
                - 2.0 * cmath.log((1.0 - g * edt) / (1.0 - g))))
        dd = ((p.kappa - p.rho * p.sigma * iu - d) / p.sigma ** 2
              * (1.0 - edt) / (1.0 - g * edt))
        return cmath.exp(c + dd * p.v0 + iu * x)

    lnk = math.log(k)
    phi_mi = phi(-1j)

    def integrand_p1(u):
        val = cmath.exp(-1j * u * lnk) * phi(u - 1j) / (1j * u * phi_mi)
        return val.real

    def integrand_p2(u):
        val = cmath.exp(-1j * u * lnk) * phi(u) / (1j * u)
        return val.real

    p1 = 0.5 + quad(integrand_p1, 0.0, 200.0, limit=400)[0] / math.pi
    p2 = 0.5 + quad(integrand_p2, 0.0, 200.0, limit=400)[0] / math.pi
    return s0 * p1 - k * math.exp(-r * t) * p2


def _mp_kernel(l, t, p, shifted):
    """50-digit evaluation of the pricing kernel amplitude N(l) or M(l)."""
    mpmath.mp.dps = 50
    il = mpmath.mpc(0, 1) * l
    shift = p.rho if shifted else 0.0
    lterm = l * (l + 1j) if shifted else l * (l - 1j)
    rad = (p.kappa / p.sigma + il * p.rho - shift) ** 2 + lterm
    w = 0.5 * p.sigma * mpmath.sqrt(rad)
    beta = (p.kappa + il * p.rho * p.sigma
            - (p.rho * p.sigma if shifted else 0.0)) / (2.0 * w)
    return complex(1.0 / (mpmath.cosh(w * t) + beta * mpmath.sinh(w * t)))


class TestKernelFunctions:
    def test_omega_at_origin(self, fig1_heston):
        assert omega_of_l(0.0, fig1_heston) == pytest.approx(
            fig1_heston.kappa / 2.0, abs=1e-15)

    def test_nu_at_origin(self, fig1_heston):
        p = fig1_heston
        expected = 0.5 * p.sigma * cmath.sqrt(
            (p.kappa / p.sigma - p.rho) ** 2)
        assert nu_of_l(0.0, p) == pytest.approx(expected, abs=1e-15)

    def test_amplitude_at_origin(self, fig1_heston):
        p = fig1_heston
        # omega(0) = kappa/2 and beta = 1, so N collapses to exp(-kappa T / 2)
        assert big_n_of_l(0.0, 1.0, p) == pytest.approx(
            math.exp(-p.kappa / 2.0), abs=1e-15)

    @pytest.mark.parametrize("l", [0.3, 1.0, 4.7, 25.0])
    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5])
    def test_amplitudes_vs_multiprecision(self, l, rho):
        p = HestonParams(mu=0.03, kappa=1.0, theta=0.04, sigma=0.2,
                         rho=rho, v0=0.04)
        n_ref = _mp_kernel(l, 1.0, p, shifted=False)
        m_ref = _mp_kernel(l, 1.0, p, shifted=True)
        assert complex(big_n_of_l(l, 1.0, p)) == pytest.approx(n_ref,
                                                               rel=1e-12)
        assert complex(big_m_of_l(l, 1.0, p)) == pytest.approx(m_ref,
                                                               rel=1e-12)

    @pytest.mark.parametrize("func", [omega_of_l, nu_of_l])
    def test_conjugate_symmetry(self, fig1_heston, func):
        for l in (0.5, 3.0, 12.0):
            assert complex(func(-l, fig1_heston)) == pytest.approx(
                complex(func(l, fig1_heston)).conjugate(), rel=1e-14)

    def test_integrand_bounded_near_origin(self, fig1_heston, atm_option):
        # the 1/l prefactor cancels; values at l = +/-1e-6 stay finite
        vals = price_integrand(np.array([-1e-6, 1e-6]), atm_option,
                               fig1_heston, 0.03)
        assert np.all(np.isfinite(vals))
        assert np.all(np.abs(vals) < 1e4)


class TestHestonCallPrice:
    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5])
    @pytest.mark.parametrize("strike", [80.0, 100.0, 120.0])
    def test_against_characteristic_function_oracle(self, rho, strike):
        p = HestonParams(mu=0.03, kappa=1.0, theta=0.04, sigma=0.2,
                         rho=rho, v0=0.04)
        opt = VanillaOption(100.0, strike, 1.0)
        ref = _cf_reference_call(opt, p, 0.03)
        assert heston_call_price(opt, p, 0.03) == pytest.approx(ref,
                                                                rel=1e-7)

    def test_deep_in_the_money_limit(self, fig1_heston):
        opt = VanillaOption(100.0, 1e-8, 1.0)
        price = heston_call_price(opt, fig1_heston, 0.03)
        assert abs(price - 100.0) <= 1e-6

    def test_volatility_risk_premium_invariance(self, fig1_heston):
        from hestoncir import risk_neutral_map
        # pricing depends on (kappa0, theta0, lam) only through the mapped
        # pair, so pre-mapping by hand must give the identical float
        lam = 0.7
        kappa, theta = risk_neutral_map(1.0, 0.04, lam)
        p_raw = HestonParams(mu=0.03, kappa=1.0, theta=0.04, sigma=0.2,
                             rho=-0.5, v0=0.04, lam=lam)
        p_mapped = HestonParams(mu=0.03, kappa=kappa, theta=theta,
                                sigma=0.2, rho=-0.5, v0=0.04)
        opt = VanillaOption(100.0, 100.0, 1.0)
        assert heston_call_price(opt, p_raw, 0.03) == \
            heston_call_price(opt, p_mapped, 0.03)

    def test_small_vol_of_vol_reduces_to_black_scholes(self):
        p = HestonParams(mu=0.03, kappa=1.0, theta=0.04, sigma=1e-3,
                         rho=0.0, v0=0.04)
        opt = VanillaOption(100.0, 100.0, 1.0)
        ref = bs_price(opt, 0.03, 0.2)  # v0 = theta => flat variance 0.04
        assert heston_call_price(opt, p, 0.03) == pytest.approx(ref,
                                                                rel=1e-4)

    @pytest.mark.parametrize("strike", [80.0, 100.0, 120.0])
    def test_put_call_parity(self, fig1_heston, strike):
        call = heston_call_price(VanillaOption(100.0, strike, 1.0, "call"),
                                 fig1_heston, 0.03)
        put = heston_call_price(VanillaOption(100.0, strike, 1.0, "put"),
                                fig1_heston, 0.03)
        parity = 100.0 - strike * math.exp(-0.03)
        assert call - put == pytest.approx(parity, abs=1e-9)

    def test_arbitrage_bounds_and_monotonicity(self, fig1_heston):
        strikes = np.linspace(50.0, 160.0, 23)
        prices = [heston_call_price(VanillaOption(100.0, k, 1.0),
                                    fig1_heston, 0.03) for k in strikes]
        disc = math.exp(-0.03)
        for k, c in zip(strikes, prices):
            assert max(100.0 - k * disc, 0.0) - 1e-9 <= c <= 100.0
        assert all(a > b for a, b in zip(prices, prices[1:]))

    def test_diagnostics_report_convergence(self, fig1_heston, atm_option):
        price, res = heston_price_with_diagnostics(atm_option, fig1_heston,
                                                   0.03)
        assert res.converged
        assert res.error_estimate < 1e-7
        assert price == heston_call_price(atm_option, fig1_heston, 0.03)

    def test_at_the_money_takes_the_measured_evaluations(self, fig1_heston,
                                                         atm_option):
        # the folded integral evaluates 8 start panels on l > 0, where the
        # whole line took 16, and converges in that first call
        price, res = heston_price_with_diagnostics(atm_option, fig1_heston,
                                                   0.03)
        assert res.evaluations == 120 and res.integrand_calls == 1
        assert abs(price - 9.290246306287323672) <= 1e-9 * atm_option.s0

    def test_unconverged_quote_names_its_window_and_calls(self, fig1_heston,
                                                          atm_option):
        # 60 evaluations pay for four start panels and no refinement
        with pytest.raises(PricingError, match="did not converge") as err:
            heston_call_price(atm_option, fig1_heston, 0.03,
                              QuadratureConfig(max_evals=60))
        res = err.value.result
        assert res is not None and res.converged is False
        assert res.evaluations == 60 and res.integrand_calls == 1
        assert "after 60 evaluations in 1 integrand calls, window 200" \
            in str(err.value)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, [],
                                   [0.03, math.nan], np.array([0.01, np.inf])],
                             ids=["nan", "inf", "-inf", "empty",
                                  "array-nan", "array-inf"])
    @pytest.mark.parametrize("price", [heston_call_price,
                                       heston_price_with_diagnostics])
    def test_bad_rate_raises_naming_it(self, fig1_heston, atm_option, price,
                                       r):
        # a NaN rate used to end in a QuadratureError at some l, and an
        # empty array in numpy's zero-size reduction error
        with pytest.raises(ValueError, match="rate r must"):
            price(atm_option, fig1_heston, r)

    @pytest.mark.parametrize("strike, r", [(100.0, 0.03), (73.0, 0.01)])
    def test_memo_is_transparent(self, fig1_heston, core_memo, monkeypatch,
                                 strike, r):
        # a quote priced from a warm table takes the cold quote's path:
        # same price, value, error and evaluations, bit for bit
        opt = VanillaOption(100.0, strike, 1.0)
        cold_price, cold = heston_price_with_diagnostics(opt, fig1_heston, r)
        for k, rate in [(80.0, 0.02), (100.0, 0.05), (125.0, 0.03)]:
            heston_call_price(VanillaOption(100.0, k, 1.0, "put"),
                              fig1_heston, rate)
        assert core_memo.nodes > 0
        computed = []
        core = heston._core_exponents

        def counting(l, T, p):
            computed.append(np.size(l))
            return core(l, T, p)

        monkeypatch.setattr(heston, "_core_exponents", counting)
        price, res = heston_price_with_diagnostics(opt, fig1_heston, r)
        assert sum(computed) < res.evaluations   # the table served hits
        assert price == cold_price
        assert (res.value, res.error_estimate, res.evaluations) == \
            (cold.value, cold.error_estimate, cold.evaluations)


# kappa < rho sigma takes the spot core's other branch; lam != 0 moves
# kappa and theta to the pricing measure; sigma 1e-6 is the near-
# deterministic limit
_STACK_PARAMS = [
    HestonParams(mu=0.03, kappa=1.0, theta=0.04, sigma=0.2, rho=-0.5,
                 v0=0.04),
    HestonParams(mu=0.03, kappa=0.3, theta=0.1, sigma=1.5, rho=0.95,
                 v0=0.5),
    HestonParams(mu=0.03, kappa=2.0, theta=0.05, sigma=0.6, rho=0.3,
                 v0=0.02, lam=0.7),
    HestonParams(mu=0.03, kappa=1.5, theta=0.04, sigma=1e-6, rho=-0.9,
                 v0=0.09),
    HestonParams(mu=0.03, kappa=0.5, theta=0.04, sigma=0.5, rho=0.99,
                 v0=0.04, lam=-0.1),
]


class TestStackedCores:
    @pytest.mark.parametrize("p", _STACK_PARAMS)
    @pytest.mark.parametrize("T", [1.0 / 52.0, 1.0, 30.0])
    def test_equal_to_the_per_core_calls_bit_for_bit(self, p, T):
        mag = np.geomspace(1e-6, 1e4, 301)
        l = np.concatenate([-mag[::-1], mag])
        spot, strike = heston._core_exponents(l, T, p)
        assert spot.tobytes() == heston._spot_core(l, T, p).tobytes()
        assert strike.tobytes() == heston._strike_core(l, T, p).tobytes()


class TestCoreMemo:
    def test_one_off_parameter_sets_store_nothing(self, core_memo,
                                                  atm_option):
        for i in range(40):
            p = HestonParams(mu=0.03, kappa=0.5 + 0.05 * i, theta=0.04,
                             sigma=0.3, rho=-0.6, v0=0.04)
            heston_call_price(atm_option, p, 0.03)
        assert core_memo.tables == []
        assert core_memo.nodes == 0

    def test_node_budget_holds_over_many_keys(self, core_memo, fig1_heston,
                                              monkeypatch):
        assert 40 * heston._MEMO_NODES <= 2 ** 20   # about 1 MB of tables
        # a budget these quotes fill, so full tables are exercised
        monkeypatch.setattr(core_memo, "max_nodes", 3000)
        quotes = [(VanillaOption(100.0, k, 0.02 + 0.01 * i), fig1_heston)
                  for i in range(100) for k in (80.0, 125.0)]
        prices = [heston_call_price(opt, p, 0.03) for opt, p in quotes]
        assert 0 < len(core_memo.tables) <= heston._MEMO_KEYS
        assert 2000 < core_memo.nodes <= 3000
        assert core_memo.nbytes == 40 * core_memo.nodes
        # full tables keep serving hits with the values they hold
        assert [heston_call_price(opt, p, 0.03)
                for opt, p in quotes[-40:]] == prices[-40:]

    @pytest.mark.parametrize("change, T, shared", [
        ({"mu": 0.05}, 1.0, True),
        ({"rho": -0.4}, 1.0, False),
        ({"lam": 0.3}, 1.0, False),
        ({}, 1.5, False),
    ])
    def test_table_key_is_params_and_maturity(self, core_memo, fig1_heston,
                                              change, T, shared):
        heston_call_price(VanillaOption(100.0, 100.0, 1.0), fig1_heston,
                          0.03)
        # the second quote also differs in strike, kind and rate
        heston_call_price(VanillaOption(100.0, 90.0, T, "put"),
                          replace(fig1_heston, **change), 0.05)
        assert core_memo.tables == (
            [heston._heston_key(fig1_heston, 1.0)] if shared else [])


class TestMarginalDensity:
    def test_normalization(self, fig1_heston):
        xs = np.linspace(-3.0, 3.0, 2001)
        dens = marginal_density_grid(xs, 1.0, fig1_heston)
        assert abs(np.trapezoid(dens, xs) - 1.0) <= 1e-6

    @pytest.mark.parametrize("xs", [[math.nan, 0.0], [math.inf],
                                    [-1.0, -math.inf, 1.0]])
    def test_grid_rejects_non_finite_x(self, fig1_heston, xs):
        bad = next(x for x in xs if not math.isfinite(x))
        with pytest.raises(ValueError, match=repr(bad)):
            marginal_density_grid(xs, 1.0, fig1_heston)

    def test_grid_evaluator_matches_scalar_route(self, fig1_heston):
        xs = np.array([-0.6, -0.1, 0.0, 0.2, 0.7])
        grid = marginal_density_grid(xs, 1.0, fig1_heston)
        scalar = np.array([marginal_density(x, 1.0, fig1_heston)
                           for x in xs])
        np.testing.assert_allclose(grid, scalar, atol=1e-9)

    @pytest.mark.parametrize("T", [0.02, 1.0, 30.0])
    def test_array_x_matches_a_call_per_x(self, fig1_heston, T):
        sd = math.sqrt(0.08 * T)
        xs = np.array([0.0, 0.9 * sd, -1.7 * sd, 3.0 * sd])
        got = marginal_density(xs, T, fig1_heston)
        each = np.array([marginal_density(x, T, fig1_heston) for x in xs])
        assert got.shape == xs.shape
        assert np.max(np.abs(got - each)) <= 1e-12 * each[0]

    def test_passing_table_makes_one_probe_call(self, fig1_heston,
                                                monkeypatch):
        real, calls = heston.marginal_density, []

        def counted(x, *args):
            calls.append(np.shape(x))
            return real(x, *args)
        monkeypatch.setattr(heston, "marginal_density", counted)
        marginal_density_grid(np.linspace(-1.0, 1.0, 101), 1.0, fig1_heston)
        assert calls == [(3,)]

    def test_probe_window_is_the_table_end(self, fig1_heston, monkeypatch):
        # the probe's start window [0, 2 l_max] holds the whole table, so
        # its outer panel is below abs_tol and it never grows; the call
        # bound is the measured count
        real_density, cfgs = heston.marginal_density, []
        real_integral, results = heston.integrate_half_line, []

        def captured(x, T, p, cfg):
            cfgs.append(cfg)
            return real_density(x, T, p, cfg)

        def counted(f, cfg):
            results.append(real_integral(f, cfg))
            return results[-1]
        monkeypatch.setattr(heston, "marginal_density", captured)
        monkeypatch.setattr(heston, "integrate_half_line", counted)
        marginal_density_grid(np.linspace(-1.0, 1.0, 101), 1.0, fig1_heston)
        l_max = heston._decay_limit(1.0, fig1_heston)
        assert len(cfgs) == 1 and cfgs[0].truncation_bound == l_max
        assert len(results) == 1 and results[0].converged
        assert results[0].window == 2.0 * l_max
        assert results[0].integrand_calls <= 3

    def test_benchmark_grid_table_is_sized_by_its_aliasing_bound(
            self, fig1_heston, monkeypatch):
        # T = 0.25, 501 points over mean - 24 sd .. mean + 14 sd: a step
        # capped at 0.05 made 16,001 nodes
        real, sizes = heston._chirp_z_sum, []

        def sized(kernel, *args):
            sizes.append(kernel.size)
            return real(kernel, *args)
        monkeypatch.setattr(heston, "_chirp_z_sum", sized)
        xs = np.linspace(-0.005 - 2.4, -0.005 + 1.4, 501)
        dens = marginal_density_grid(xs, 0.25, fig1_heston)
        assert len(sizes) == 1 and sizes[0] < 2000
        assert abs(np.trapezoid(dens, xs) - 1.0) <= 1e-6

    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5])
    def test_nonnegative_on_grid(self, rho):
        p = HestonParams(mu=0.03, kappa=1.0, theta=0.04, sigma=0.2,
                         rho=rho, v0=0.04)
        dens = marginal_density_grid(np.linspace(-1.0, 1.0, 201), 1.0, p)
        assert np.all(dens >= -1e-12)

    def test_far_tail_is_negligible(self, fig1_heston):
        assert marginal_density(5.0, 1.0, fig1_heston) < 1e-6

    def test_correlation_shifts_skew(self):
        # negative spot-vol correlation fattens the left tail
        def tail_mass(rho, sign):
            p = HestonParams(mu=0.03, kappa=1.0, theta=0.04, sigma=0.2,
                             rho=rho, v0=0.04)
            xs = sign * np.linspace(0.45, 1.0, 56)
            return np.trapezoid(marginal_density_grid(xs, 1.0, p),
                                xs) * sign
        assert tail_mass(-0.5, -1.0) > tail_mass(0.5, -1.0)
        assert tail_mass(0.5, 1.0) > tail_mass(-0.5, 1.0)


class TestPriceViaDensity:
    def test_matches_direct_formula_at_the_money(self, fig1_heston,
                                                 atm_option):
        direct = heston_call_price(atm_option, fig1_heston, 0.03)
        via_density = price_via_density(atm_option, fig1_heston, 0.03)
        assert via_density == pytest.approx(direct, rel=1e-5)

    def test_deep_strike_collapses_to_spot(self, fig1_heston):
        opt = VanillaOption(100.0, 1e-8, 1.0)
        assert price_via_density(opt, fig1_heston, 0.03) == pytest.approx(
            100.0, abs=1e-4)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_bad_rate_raises_naming_it(self, fig1_heston, atm_option,
                                       monkeypatch, r):
        # NaN used to fail in int() with "cannot convert float NaN to
        # integer" and inf in a ZeroDivisionError; the check comes before
        # the tail depths, the first work the route does
        def no_work(*args):
            raise AssertionError("a bad rate reached the tail depths")
        monkeypatch.setattr(heston, "_tail_depths", no_work)
        with pytest.raises(ValueError, match="rate r must be finite"):
            price_via_density(atm_option, fig1_heston, r)


# fat right tails: the moment E[S_T^w] explodes for w just above 1 at
# long maturity and positive correlation
FAT_TAIL = dict(mu=0.03, kappa=1.5, theta=0.05, sigma=0.5, v0=0.04)
MONEYNESS = (0.5, 0.8, 1.0, 1.25, 2.0)
TIGHT = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-13)


class TestPayoffStrips:
    STRIPS = [(-0.7, 0.5), (-1.0, 2.0), (0.3, 0.5), (0.2, 2.0)]

    # (-1500, 0): a half-width past sinh's overflow at 710; too wide for
    # an adaptive reference to resolve the modes, so the l = 0 node alone
    @pytest.mark.parametrize("lo,width", STRIPS + [(-1500.0, 1500.0)])
    def test_zero_mode_alone(self, lo, width):
        # a table of the l = 0 node only: int (a e^x - k) dx times c_0
        got = heston._payoff_strip_sum(np.array([0.7 - 0.4j]), 0.05,
                                       lo, lo + width, 1.5, 1.2)
        exact = 0.7 * (1.5 * (math.exp(lo + width) - math.exp(lo))
                       - 1.2 * width)
        assert got == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("lo,width", STRIPS)
    @pytest.mark.parametrize("n", [2, 300, 4000])
    def test_closed_form_matches_quadrature_of_modes(self, n, lo, width):
        rng = np.random.default_rng(n)
        kernel, h = _random_kernel(rng, n), 0.05
        got = heston._payoff_strip_sum(kernel, h, lo, lo + width, 1.5, 1.2)
        res = integrate_interval(
            lambda xs: (1.5 * np.exp(xs) - 1.2)
            * heston._phase_matrix_sum(kernel, h, xs),
            lo, lo + width, TIGHT)
        assert res.converged
        assert abs(got - res.value.real) <= 1e-12 * np.sum(np.abs(kernel))

    @pytest.mark.parametrize("T", [0.02, 1.0, 30.0])
    def test_table_strips_match_quadrature_of_table_density(
            self, fig1_heston, T):
        # the period marginal_density_grid gives a grid of reach 10
        period = 2.0 * (10.0 + 12.0 * math.sqrt(0.08 * T) + 1.0)
        density, strip = heston._density_evaluator(
            T, fig1_heston, QuadratureConfig(), period)
        a, k = 100.0 * math.exp(0.03 * T), 100.0
        for lo, width in self.STRIPS:
            got = strip(lo, lo + width, a, k)
            res = integrate_interval(
                lambda xs: (a * np.exp(xs) - k) * density(xs),
                lo, lo + width, TIGHT)
            assert res.converged
            assert abs(got - res.value.real) <= 1e-12 * a, (lo, width)


def _quote(T, strike, kind="call", **params):
    return VanillaOption(100.0, strike, T, kind), \
        HestonParams(**{**FAT_TAIL, **params})


class TestPriceViaDensitySweep:
    @pytest.mark.parametrize("sigma", [0.2, 0.5, 1.0])
    @pytest.mark.parametrize("rho", [-0.9, 0.0, 0.9])
    @pytest.mark.parametrize("T", [0.02, 0.25, 1.0, 5.0, 30.0])
    def test_matches_direct_formula(self, T, rho, sigma):
        p = HestonParams(**{**FAT_TAIL, "rho": rho, "sigma": sigma})
        for m in MONEYNESS:
            for kind in ("call", "put"):
                opt = VanillaOption(100.0, 100.0 * m, T, kind)
                direct = heston_call_price(opt, p, 0.03)
                via = price_via_density(opt, p, 0.03)
                assert abs(via - direct) <= 1e-9 * opt.s0, (m, kind)

    @pytest.mark.parametrize("opt,p,literal", [
        (*_quote(30.0, 100.0, rho=0.9), None),
        # sigma 1, rho 0.5: E[S_T^w] explodes for w just above 1
        (*_quote(30.0, 125.0, sigma=1.0, rho=0.5), None),
        (*_quote(12.589255450688336, 30.36592809354669, "put",
                 kappa=1.7790613846114538, theta=0.3344562648457191,
                 sigma=0.18242136900387945, rho=-0.5221063390178755,
                 v0=0.019920607298138562), 8.48158343405347),
        # a put integral 2,000 (40 sd) wide
        (*_quote(50.0, 100.0, v0=25.0, theta=25.0, rho=-0.5), None),
        # a fat left tail, w- = 0.165: the put integral reaches -185
        (*_quote(6.742206184121839, 76.17829956698068,
                 kappa=0.12578862725835402, theta=0.02712460215111761,
                 sigma=1.0164207908490666, rho=-0.9346146377940443,
                 v0=0.14253016426158838), None),
        # sigma 1.5, kappa 0.12, w- = 0.02: over 200,000 table nodes
        (*_quote(20.86949557100178, 97.14537993827814, "put",
                 kappa=0.11966803061195103, theta=0.02763668471683995,
                 sigma=1.5179781404891466, rho=-0.6601583280571415,
                 v0=0.020393727618420298), None),
    ], ids=["rho0.9", "sigma1-K125", "seed7-put", "v0-25-T50", "fat-left",
            "seed10-put"])
    def test_fat_tail_prices_fast_by_parity(self, opt, p, literal):
        start = time.perf_counter()
        via = price_via_density(opt, p, 0.03)
        assert time.perf_counter() - start < 1.0
        direct = heston_call_price(opt, p, 0.03)
        assert abs(via - direct) <= 1e-9 * opt.s0
        if literal is not None:
            assert abs(direct - literal) <= 1e-9 * opt.s0

    def test_undecayed_edge_strip_names_it(self, fig1_heston, monkeypatch):
        # depths that stop short of the density's left tail
        monkeypatch.setattr(heston, "_tail_depths", lambda *args: (0.0, 5.0))
        with pytest.raises(PricingError) as err:
            price_via_density(VanillaOption(100.0, 100.0, 1.0), fig1_heston,
                              0.03)
        msg = str(err.value)
        assert "failed to decay" in msg and "T=1:" in msg
        # lo = x_lo - 2, x_lo = -0.03
        assert "edge strip [-2.03, -0.03]" in msg


BENCH_MARKET = dict(mu=0.03, kappa=1.75, theta=0.045, sigma=0.45,
                    rho=-0.65, v0=0.04)


class TestMomentSizing:
    """The put integral's depth and the table's step from the moments."""

    def test_bench_quote_table_is_small(self, monkeypatch):
        real, sizes = heston._payoff_strip_sum, []

        def sized(kernel, *args):
            sizes.append(kernel.size)
            return real(kernel, *args)
        monkeypatch.setattr(heston, "_payoff_strip_sum", sized)
        opt = VanillaOption(100.0, 100.0 * math.exp(0.03), 1.0)
        p = HestonParams(**BENCH_MARKET)
        via = price_via_density(opt, p, 0.03)
        assert abs(via - heston_call_price(opt, p, 0.03)) <= 1e-9 * opt.s0
        # the edge strip and the put, on one table
        assert len(sizes) == 2 and sizes[0] == sizes[1] < 1000

    @pytest.mark.parametrize("opt,p", [
        (VanillaOption(100.0, 100.0 * math.exp(0.03), 1.0),
         HestonParams(**BENCH_MARKET)),
        _quote(30.0, 100.0, rho=0.9),
        _quote(6.742206184121839, 76.17829956698068,
               kappa=0.12578862725835402, theta=0.02712460215111761,
               sigma=1.0164207908490666, rho=-0.9346146377940443,
               v0=0.14253016426158838),
    ], ids=["bench", "rho0.9", "fat-left"])
    def test_put_mass_below_lo_is_under_the_chernoff_bound(self, opt, p):
        cfg = QuadratureConfig()
        T, k = opt.maturity, opt.strike
        log_odds = math.log1p(3.0 * k / cfg.abs_tol)
        d_minus, d_plus = heston._tail_depths(p, T, log_odds)
        x_lo = math.log(k / opt.s0) - 0.03 * T
        lo = min(x_lo, 0.0) - d_minus - 2.0
        # a table whose images stay off [lo - 40, lo]
        density, _ = heston._density_evaluator(T, p, cfg,
                                               2.0 * (d_plus - lo + 40.0))
        a = opt.s0 * math.exp(0.03 * T)
        bound = k * math.exp(-log_odds)
        res = integrate_interval(
            lambda xs: (k - a * np.exp(xs)) * density(xs), lo - 40.0, lo,
            QuadratureConfig(abs_tol=1e-2 * bound, rel_tol=0.0))
        assert res.converged
        assert res.value.real + res.error_estimate < bound

    @pytest.mark.parametrize("params,T", [
        ({"kappa": 1.0, "theta": 0.04, "sigma": 0.2, "rho": -0.5}, 0.02),
        ({"kappa": 1.0, "theta": 0.04, "sigma": 0.2, "rho": -0.5}, 30.0),
        (BENCH_MARKET, 0.25),
        (BENCH_MARKET, 1.0),
        (BENCH_MARKET, 10.0),
        ({**FAT_TAIL, "rho": 0.9}, 30.0),
        ({**FAT_TAIL, "v0": 25.0, "theta": 25.0, "rho": -0.5}, 50.0),
    ])
    def test_table_ends_within_1pc_past_the_decay_crossing(
            self, monkeypatch, params, T):
        p = HestonParams(**{"mu": 0.03, "v0": 0.04, **params})
        l_max = heston._decay_limit(T, p)
        core = heston._strike_core(np.array([l_max / 1.01, l_max]), T, p)
        assert core[0].real >= -45.0 > core[1].real
        real, tables = heston._chirp_z_sum, []

        def kept(kernel, h, *args):
            tables.append((kernel.size, h))
            return real(kernel, h, *args)
        monkeypatch.setattr(heston, "_chirp_z_sum", kept)
        marginal_density_grid(np.linspace(-1.0, 1.0, 101), T, p)
        (n, h), = tables
        assert l_max <= (n - 1) * h < l_max + h

    @pytest.mark.parametrize("price", [True, False], ids=["price", "grid"])
    def test_table_over_budget_raises(self, fig1_heston, price):
        cfg = QuadratureConfig(max_evals=100)
        start = time.perf_counter()
        with pytest.raises(PricingError,
                           match=r"T=1 needs \d+ nodes, more than "
                                 r"max_evals=100 \(critical moments w- = "
                                 r"[\d.]+, w\+ = [\d.]+\)"):
            if price:
                price_via_density(VanillaOption(100.0, 100.0, 1.0),
                                  fig1_heston, 0.03, cfg)
            else:
                marginal_density_grid(np.linspace(-1.0, 1.0, 101), 1.0,
                                      fig1_heston, cfg)
        assert time.perf_counter() - start < 1.0


def _offset_first_probe(monkeypatch):
    """Make the table's first probe disagree; returns the list of x that
    ``marginal_density`` is called at."""
    real = heston.marginal_density
    calls = []

    def offset(x, *args):
        calls.append(x)
        return real(x, *args) + (1.0 if len(calls) == 1 else 0.0)
    monkeypatch.setattr(heston, "marginal_density", offset)
    return calls


class TestFailingProbe:
    """A density table that disagrees with its probe raises."""

    def test_grid_raises(self, fig1_heston, monkeypatch):
        calls = _offset_first_probe(monkeypatch)
        with pytest.raises(PricingError, match="probe at T=1: at x="):
            marginal_density_grid(np.linspace(-0.4, 0.4, 9), 1.0,
                                  fig1_heston)
        assert len(calls) == 1

    def test_price_raises(self, fig1_heston, monkeypatch):
        calls = _offset_first_probe(monkeypatch)
        with pytest.raises(PricingError, match="probe at T=0.1: at x="):
            price_via_density(VanillaOption(100.0, 100.0, 0.1), fig1_heston,
                              0.03)
        assert len(calls) == 1


def _direct_sum(kernel, h, xs):
    """Re sum_k kernel_k exp(i x l_k), summed directly 100 rows at a time."""
    l = np.arange(kernel.size) * h
    return np.concatenate([(np.exp(1j * np.outer(xs[i:i + 100], l))
                            @ kernel).real for i in range(0, xs.size, 100)])


def _random_kernel(rng, n):
    return (rng.normal(size=n) + 1j * rng.normal(size=n)) \
        * np.exp(-np.linspace(0.0, 8.0, n))


class TestChirpZ:
    # (kernel nodes n, grid points m, x0, dx): m = 2, m > n, n = 1,
    # negative dx and a benchmark-sized table
    CASES = [(64, 2, -0.7, 0.3), (40, 300, -3.0, 0.02), (1, 17, 0.5, 0.1),
             (300, 101, 2.0, -0.04), (16001, 2001, -4.0, 0.004)]

    @pytest.mark.parametrize("n,m,x0,dx", CASES)
    def test_matches_direct_sum(self, n, m, x0, dx):
        rng = np.random.default_rng(n + m)
        kernel, h = _random_kernel(rng, n), 0.05
        xs = x0 + dx * np.arange(m)
        got = heston._chirp_z_sum(kernel, h, x0, dx, m)
        scale = np.sum(np.abs(kernel))
        np.testing.assert_allclose(got, _direct_sum(kernel, h, xs),
                                   rtol=0, atol=1e-13 * scale)

    # scipy builds its chirp from complex powers, whose phase error grows
    # like n^2 (5e-12 of the kernel's sum on the largest case), so it is
    # compared on the small ones
    @pytest.mark.parametrize("n,m,x0,dx", CASES[:-1])
    def test_matches_scipy_czt(self, n, m, x0, dx):
        from scipy.signal import czt
        rng = np.random.default_rng(7 * n + m)
        kernel, h = _random_kernel(rng, n), 0.03
        # czt sums x_k a^-k w^(jk): a = exp(-i x0 h), w = exp(i dx h)
        ref = czt(kernel, m, w=np.exp(1j * dx * h),
                  a=np.exp(-1j * x0 * h)).real
        got = heston._chirp_z_sum(kernel, h, x0, dx, m)
        np.testing.assert_allclose(got, ref, rtol=0,
                                   atol=1e-13 * np.sum(np.abs(kernel)))

    @pytest.mark.parametrize("xs,step", [
        (np.linspace(-3.0, 3.0, 4001), 1.5e-3),
        (np.linspace(2.0, -1.0, 31), -0.1),
        (np.array([0.25, 0.75]), 0.5),
        (0.1 + np.linspace(-1.0, 1.0, 201), 0.01),
        (np.arange(-2.0, 2.0, 0.125), 0.125),
    ])
    def test_uniform_step_of_even_grids(self, xs, step):
        assert heston._uniform_step(xs) == pytest.approx(step, rel=1e-12)

    @pytest.mark.parametrize("xs", [
        np.array([0.0, 0.1, 0.3]),
        np.linspace(-1.0, 1.0, 101) ** 3,
        np.full(5, 0.3),
        np.array([0.4]),
        np.linspace(-1.0, 1.0, 12).reshape(3, 4),
        np.array([0.0, np.nan, 1.0]),
        np.array([-np.inf, 0.0, np.inf]),
    ])
    def test_uneven_inputs_have_no_step(self, xs):
        assert heston._uniform_step(xs) is None

    @pytest.mark.parametrize("xs", [np.array([-0.5, 0.0, 0.2, 0.9]),
                                    np.full(7, 0.1)],
                             ids=["uneven", "constant"])
    def test_uneven_and_constant_grids_take_the_matrix_route(
            self, fig1_heston, monkeypatch, xs):
        def refuse(*args):
            raise AssertionError("chirp-z route taken")
        monkeypatch.setattr(heston, "_chirp_z_sum", refuse)
        dens = marginal_density_grid(xs, 1.0, fig1_heston)
        scalar = [marginal_density(x, 1.0, fig1_heston) for x in xs]
        np.testing.assert_allclose(dens, scalar, atol=1e-9)

    def test_even_grid_takes_the_transform(self, fig1_heston, monkeypatch):
        calls = []
        real = heston._chirp_z_sum
        monkeypatch.setattr(heston, "_chirp_z_sum",
                            lambda *a: calls.append(a[3:]) or real(*a))
        marginal_density_grid(np.linspace(-1.0, 1.0, 101), 1.0, fig1_heston)
        assert len(calls) == 1 and calls[0][1] == 101

    @pytest.mark.parametrize("T,n", [(0.25, 501), (1.0, 1001), (5.0, 2001),
                                     (10.0, 1001), (1.0, 4001)])
    def test_density_grid_matches_matrix_route(self, fig1_heston,
                                               monkeypatch, T, n):
        if n == 4001:
            xs = np.linspace(-3.0, 3.0, n)
        else:   # the benchmark's grid shape
            sd, mean = math.sqrt(0.04 * T), -0.02 * T
            xs = np.linspace(mean - 24.0 * sd, mean + 14.0 * sd, n)
        fast = marginal_density_grid(xs, T, fig1_heston)
        monkeypatch.setattr(heston, "_uniform_step", lambda xs: None)
        slow = marginal_density_grid(xs, T, fig1_heston)
        np.testing.assert_allclose(fast, slow, rtol=0,
                                   atol=1e-12 * slow.max())

    def test_matrix_route_memory_is_bounded(self, fig1_heston):
        import tracemalloc
        xs = np.random.default_rng(3).uniform(-3.0, 3.0, 2000)
        marginal_density_grid(xs[:3], 0.25, fig1_heston)   # warm imports
        tracemalloc.start()
        try:
            marginal_density_grid(xs, 0.25, fig1_heston)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # three phase blocks of 2^20 doubles are 25 MB; the 512-row
        # blocks this replaced peaked at 66 MB here
        assert peak < 32e6

    def test_matrix_route_blocks_keep_values(self, monkeypatch):
        rng = np.random.default_rng(11)
        kernel = _random_kernel(rng, 5000)
        xs = rng.uniform(-3.0, 3.0, 700)
        blocked = heston._phase_matrix_sum(kernel, 0.05, xs)
        monkeypatch.setattr(heston, "_PHASE_BLOCK", 1 << 40)
        whole = heston._phase_matrix_sum(kernel, 0.05, xs)
        np.testing.assert_allclose(blocked, whole, rtol=0,
                                   atol=1e-14 * np.sum(np.abs(kernel)))


# (T, x, density) for fig1 at 30 digits, printed by
# tests/mp_density_oracle.py; the first x of each T is the mode
MP_DENSITIES = (
    (0.02, 0.0011, 14.137087409926300668),
    (0.02, -0.0852528137423857, 0.20960151645447881513),
    (0.02, 0.08445281374238571, 0.11200273904608207683),
    (0.25, 0.0127, 4.0925809100154809655),
    (0.25, -0.305, 0.096729136558436220344),
    (0.25, 0.295, 0.016032995817886225068),
    (1.0, 0.0358, 2.1277277460702212636),
    (1.0, -0.62, 0.064743400533497889761),
    (1.0, 0.58, 0.0062143638372819186054),
    (30.0, -0.4325, 0.35294264736280197296),
    (30.0, -3.8863353450309965, 0.010144432617582610758),
    (30.0, 2.6863353450309964, 0.0023666573734494187649),
)


class TestDensityOracle:
    @pytest.mark.parametrize("T,x,ref", MP_DENSITIES)
    def test_grid_and_adaptive_match_mpmath(self, fig1_heston, T, x, ref):
        peak = next(d for t, _, d in MP_DENSITIES if t == T)
        # an even grid with x at its centre takes the chirp-z route
        xs = x + np.linspace(-1.0, 1.0, 201)
        grid = marginal_density_grid(xs, T, fig1_heston)[100]
        assert abs(grid - ref) <= 1e-10 * peak
        assert abs(marginal_density(x, T, fig1_heston) - ref) <= 1e-10 * peak


# (kappa, theta, sigma, rho, v0, lam, T, l, exp(spot core).real, .imag,
# exp(strike core).real, .imag) at 50 digits, printed by
# tests/mp_core_oracle.py
MP_CORES = (
    (1.0, 0.04, 0.2, -0.5, 0.04, 0.0, 1.0, 0.7,
     0.99083537070563863377, -0.01358558044488827804,
     0.98979594700430284437, 0.013577986459868944267),
    (1.0, 0.04, 0.2, -0.5, 0.04, 0.0, 30.0, -3.0,
     -0.012415859265392494391, 0.010464638772019367417,
     0.0059923225890718278819, -0.0017451458428205083582),
    (1.0, 0.04, 0.2, -0.5, 0.04, 0.0, 0.02, 150.0,
     0.000047007165429641813057, -0.00017685157694949763261,
     0.000064590011975808082646, -0.00016655608362014834271),
    (1.0, 0.04, 0.2, -0.5, 0.04, 0.0, 1.0, -0.001,
     0.99999998119433696617, 0.000019284510862267294258,
     0.99999997903062316686, -0.000019999998756595255553),
    (0.5, 0.2, 1.2, -0.3, 0.62, 0.0, 0.5, 2.0,
     0.60898339434698963865, -0.18285714019108602978,
     0.56879333361244308092, 0.086336442792791156118),
    (0.3, 0.1, 1.5, 0.95, 0.5, 0.0, 5.0, 0.01,
     0.70575705578060570908, -0.18808831685599315643,
     0.99993010511444478557, 0.0076782610241167841726),
    (0.3, 0.1, 1.5, 0.95, 0.5, 0.0, 30.0, 0.001,
     0.30270435267181288799, -0.012339646733657610001,
     0.99999301276188386488, 0.002166540797225162066),
    (0.6, 0.08, 0.9, 0.8, 0.1, -0.3, 2.0, -0.05,
     0.99878567753980107283, 0.010994527025856743416,
     0.99981343023304330713, -0.0057455363599108384204),
    (0.7, 0.1, 0.8, 0.95, 0.08, -0.4, 1.0, 0.02,
     0.99995827097335256583, -0.0014258182170764436681,
     0.99998505712559923718, 0.0010086908183259681245),
    (0.7, 0.1, 0.8, 0.95, 0.08, -0.4, 10.0, 5.0,
     -0.026393615900999365913, -0.10049653860376077089,
     0.0099450357016898624111, -0.26493259770884094194),
    (0.2, 0.3, 1.0, 0.6, 0.3, 0.0, 20.0, 0.3,
     0.29734169225768071704, -0.025814415692175687371,
     0.61871567334105473341, 0.45071900325266947351),
    (1.5, 0.05, 0.5, -0.6, 0.04, 0.0, 5.0, 1.0,
     0.91011972275334932586, -0.10387770214727260219,
     0.86888656274829422243, 0.081540888757044765638),
    (3.0, 0.02, 0.4, 0.5, 0.01, -1.0, 0.5, -7.0,
     0.81548073707745810382, -0.013533131709605946327,
     0.82698378883848881177, -0.055841395557628869705),
    (0.8, 0.12, 0.7, -0.95, 0.15, 0.0, 10.0, 0.5,
     0.93092265985181317442, -0.1759978174592359576,
     0.7805580496347875756, 0.16090584415743790045),
    (4.0, 0.09, 0.25, -0.2, 0.12, 0.0, 0.25, -12.0,
     0.1454551001891591798, 0.038518493433260739258,
     0.14654420474843741401, -0.0074428795039362469511),
    (2.0, 0.05, 0.3, -0.7, 0.03, 0.0, 30.0, 0.001,
     0.99999915686789310185, -0.00067528264668369668963,
     0.99999889649051302543, 0.00074499922138235894984),
    (1.2, 0.03, 0.05, 0.3, 0.005, 0.0, 0.02, 316.0,
     0.0051555335305307110898, 0.0011726794911530884346,
     0.0051257547513583658822, 0.0013444868519477675661),
    (1.2, 0.03, 0.05, 0.3, 0.02, 0.0, 30.0, 2.5,
     0.029640232797833563375, -0.049948083658214637363,
     0.023778873397532832616, 0.059716238317994223868),
    (2.0, 0.05, 0.01, -0.7, 0.03, 0.0, 1.0, 10.0,
     0.12379088465541816908, -0.030995284401586529229,
     0.12435947110686196024, 0.021010265824686067872),
    (0.5, 0.06, 0.003, 0.9, 0.1, 0.0, 0.02, 50.0,
     0.08239507620956778281, -0.0038376134965278802724,
     0.082384042540627410751, 0.0043918856098032265617),
    (2.0, 0.05, 0.001, -0.7, 0.03, 0.0, 10.0, -1.5,
     0.53791878990766072495, 0.20718731534032048077,
     0.53771188777566951143, -0.20684395459420492987),
    (2.0, 0.05, 0.001, -0.7, 0.03, 0.0, 0.02, 0.001,
     0.99999999969601079408, -3.0394510510544134651e-7,
     0.99999999969600452175, 3.0394719566713623164e-7),
    (2.0, 0.05, 0.0001, -0.7, 0.03, 0.0, 0.1, 30.0,
     0.23801321490706351149, -0.011420991744706651784,
     0.23801307118330452072, 0.011354960046113237487),
    (2.0, 0.05, 0.0001, -0.7, 0.03, 0.0, 1.0, 3.16,
     0.8117215047924211302, -0.053121193397720226508,
     0.81171320492697629822, 0.05310145646073444615),
    (2.0, 0.05, 0.0001, -0.7, 0.03, 0.8, 3.0, -1.0,
     0.94749805574794940273, 0.049838093638391036215,
     0.94749483190610568695, -0.049836827249621645389),
    (2.0, 0.05, 3e-05, -0.7, 0.03, 0.0, 10.0, 0.3,
     0.9755507730462862515, -0.071831726904168457008,
     0.97555008689270553143, 0.071832265416028050047),
    (2.0, 0.05, 1e-05, -0.7, 0.03, 0.0, 1.0, -17.0,
     0.0023846560714720391791, 0.00087505297314617364693,
     0.0023849118025304400265, -0.00087410443497570422528),
    (1.0, 0.04, 1e-05, 0.0, 0.04, 0.0, 30.0, 0.4,
     0.88242559759282255938, -0.21594428263205094457,
     0.88242559759282255938, 0.21594428263205094457),
    (2.0, 0.05, 1e-06, -0.7, 0.03, 0.0, 30.0, 0.01,
     0.99989775379115885717, -0.0074493735225465885258,
     0.99989775369515973923, 0.007449376084947925536),
    (5.0, 0.1, 1e-06, -0.95, 0.15, 0.5, 0.25, 10.0,
     0.21233273973637459192, -0.032911147120037643506,
     0.21233274200774776784, 0.032910599279599555672),
)


class TestCoreOracle:
    @pytest.mark.parametrize("row", MP_CORES)
    def test_cores_match_mpmath(self, row):
        kappa, theta, sigma, rho, v0, lam, T, l = row[:8]
        p = HestonParams(mu=0.03, kappa=kappa, theta=theta, sigma=sigma,
                         rho=rho, v0=v0, lam=lam)
        spot, strike = heston._core_exponents(np.array([l]), T, p)
        assert abs(np.exp(spot[0]) - complex(*row[8:10])) <= 1e-12
        assert abs(np.exp(strike[0]) - complex(*row[10:12])) <= 1e-12


# (kappa, theta, sigma, rho, v0, lam, T, w-, w+) at 30 digits, printed by
# tests/mp_core_oracle.py: the benchmark's market at T = 0.5, 1 and 2,
# FAT_TAIL with rho 0.9 at T = 30, the fat left tail of
# test_fat_tail_prices_fast_by_parity and kappa < rho sigma with lam != 0
MP_CRITICAL_MOMENTS = (
    (1.75, 0.045, 0.45, -0.65, 0.04, 0.0, 0.5,
     11.341270750439182321, 34.866010309120388923),
    (1.75, 0.045, 0.45, -0.65, 0.04, 0.0, 1.0,
     6.3489105804952622327, 22.013494426708463597),
    (1.75, 0.045, 0.45, -0.65, 0.04, 0.0, 2.0,
     3.9190201433798659954, 16.100683315025484428),
    (1.5, 0.05, 0.5, 0.9, 0.04, 0.0, 30.0,
     25.082812056488394909, 1.9192429758428880888),
    (0.12578862725835402, 0.02712460215111761, 1.0164207908490666,
     -0.9346146377940443, 0.14253016426158838, 0.0, 6.742206184121839,
     0.16538203776915783618, 10.351367942289276329),
    (0.7, 0.1, 0.8, 0.95, 0.08, -0.4, 10.0,
     1.4438683214573923762, 1.0133205177884048292),
)


def _moment_case(row):
    kappa, theta, sigma, rho, v0, lam, T = row[:7]
    return HestonParams(mu=0.03, kappa=kappa, theta=theta, sigma=sigma,
                        rho=rho, v0=v0, lam=lam), T


class TestCriticalMoments:
    @pytest.mark.parametrize("row", MP_CRITICAL_MOMENTS)
    def test_match_mpmath(self, row):
        p, T = _moment_case(row)
        w_minus, w_plus = critical_moments(p, T)
        assert abs(w_minus / row[7] - 1.0) <= 1e-8
        assert abs(w_plus / row[8] - 1.0) <= 1e-8

    @pytest.mark.parametrize("row", MP_CRITICAL_MOMENTS)
    def test_finite_inside_and_exploded_outside(self, row):
        p, T = _moment_case(row)
        w_minus, w_plus = critical_moments(p, T)
        ends = np.array([-w_minus, w_plus])
        log_m, sign = heston._log_moment(ends * (1.0 - 1e-9), T, p)
        assert np.all(np.isfinite(log_m)) and np.all(sign > 0.0)
        _, sign = heston._log_moment(ends * (1.0 + 1e-9), T, p)
        assert np.all(sign <= 0.0)


def _log1p_points():
    """Complex z for the log1p sweep, and the exact log1p of each."""
    moduli = np.logspace(-12.0, 3.0, 61)
    args = np.linspace(-math.pi, math.pi, 24, endpoint=False) \
        + math.pi / 24.0
    zs = list((moduli[:, None] * np.exp(1j * args)).ravel())
    # on and near the circle |1 + z| = 1, where log|1 + z| cancels
    phis = np.concatenate([np.logspace(-10.0, 0.0, 21), [2.0, 3.0, 3.1]])
    for phi in np.concatenate([phis, -phis]):
        for radius in (1.0, 1.0 + 1e-12, 1.0 - 1e-8, 1.0 + 1e-4):
            zs.append(radius * cmath.exp(1j * phi) - 1.0)
    with mpmath.workdps(50):
        refs = [complex(mpmath.log(1 + mpmath.mpc(z.real, z.imag)))
                for z in zs]
    return np.array(zs), np.array(refs)


class TestLog1p:
    def test_against_mpmath(self):
        zs, refs = _log1p_points()
        got = heston._log1p_c(zs)
        err = np.abs(got - refs) / np.abs(refs)
        assert np.max(err) <= 1e-14, zs[np.argmax(err)]


NEARDET = dict(mu=0.03, kappa=2.0, theta=0.05, rho=-0.7, v0=0.03)


class TestNearDeterministicLimit:
    @pytest.mark.parametrize("T", [0.1, 1.0, 10.0])
    def test_price_is_black_scholes_plus_a_term_linear_in_sigma(self, T):
        # as sigma -> 0 the variance follows its mean-reversion ODE, the
        # price tends to Black-Scholes at the integrated variance, and
        # the gap is first order in sigma (through rho)
        kappa, theta, v0 = NEARDET["kappa"], NEARDET["theta"], NEARDET["v0"]
        var = theta * T - (v0 - theta) * math.expm1(-kappa * T) / kappa
        opt = VanillaOption(100.0, 105.0, T)
        bs = bs_price(opt, 0.03, math.sqrt(var / T))
        cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9, max_evals=20000)
        slopes = []
        for sigma in (1e-4, 3e-5, 1e-5, 1e-6):
            p = HestonParams(sigma=sigma, **NEARDET)
            price, res = heston_price_with_diagnostics(opt, p, 0.03, cfg)
            assert res.converged
            slopes.append((price - bs) / sigma)
        assert max(slopes) - min(slopes) <= 1e-2 * abs(slopes[-1]), slopes
