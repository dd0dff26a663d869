"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line for its criterion before asserting,
so a plain ``pytest -v`` run doubles as the release checklist.  The
expensive Euler simulations (10^6 paths x 500 steps) are cached at
module scope and shared between the pricing comparison and the density
histogram test.
"""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import trapezoid

from hestoncir import (
    CirRateParams,
    HestonParams,
    McConfig,
    VanillaOption,
    cir_bond_price,
    deterministic_average_rate,
    heston_call_price,
    hybrid_call_price,
    marginal_density_grid,
    mc_price_hybrid,
    price_integrand,
    price_via_density,
    risk_neutral_map,
    simulate_heston_terminal,
)

S0 = 100.0
T = 1.0
RHOS = (-0.5, 0.0, 0.5)
STRIKES = (80.0, 90.0, 100.0, 110.0, 120.0)
RATE1 = CirRateParams(kappa_r=1.8, theta_r=0.03, sigma_r=0.1, r0=0.035)
RATE2 = CirRateParams(kappa_r=0.5, theta_r=0.03, sigma_r=0.3, r0=0.035)


def heston(rho, mu=0.03, **kw):
    base = dict(mu=mu, kappa=1.0, theta=0.04, sigma=0.2, rho=rho, v0=0.04)
    base.update(kw)
    return HestonParams(**base)


def report(num, name, ok):
    print("ACCEPTANCE %d (%s): %s" % (num, name, "PASS" if ok else "FAIL"),
          flush=True)
    return ok


_TERMINAL = {}


def terminal_logs(r, rho):
    """Cached 10^6-path Euler samples of x_T for (r, rho) under mu = r.

    x_T = ln(S_T/S0) - rT is the drift-adjusted logreturn that
    ``marginal_density`` is defined on.  ``simulate_heston_terminal``
    returns ln(S_T/S0) itself, drift included, so rT is taken off here.
    """
    key = (r, rho)
    if key not in _TERMINAL:
        seed = 7000 + round(r * 1000) * 10 + RHOS.index(rho)
        mc = McConfig(paths=1_000_000, steps=500, seed=seed)
        _TERMINAL[key] = simulate_heston_terminal(heston(rho, mu=r), r, T,
                                                  mc) - r * T
    return _TERMINAL[key]


def test_criterion_1_heston_formula_vs_euler_mc():
    failures = {}
    worst_z = {}
    for r in (0.03, 0.035):
        disc = math.exp(-r * T)
        misses = 0
        worst = 0.0
        for rho in RHOS:
            x = terminal_logs(r, rho)
            s_t = S0 * np.exp(x + r * T)
            for k in STRIKES:
                payoff = disc * np.maximum(s_t - k, 0.0)
                se = payoff.std() / math.sqrt(payoff.size)
                ref = heston_call_price(VanillaOption(S0, k, T),
                                        heston(rho, mu=r), r)
                if abs(payoff.mean() - ref) > 3.0 * se:
                    misses += 1
                z = (payoff.mean() - ref) / se
                if abs(z) > abs(worst):
                    worst = z
        failures[r] = misses
        worst_z[r] = round(worst, 2)
    ok = all(m <= 1 for m in failures.values())
    assert report(1, "heston formula vs euler mc", ok), \
        {"misses": failures, "worst_signed_z": worst_z}


def test_criterion_2_hybrid_formula_vs_average_rate_mc():
    misses = 0
    for i, rho in enumerate(RHOS):
        for j, k in enumerate(STRIKES):
            opt = VanillaOption(S0, k, T)
            est = mc_price_hybrid(opt, heston(rho), RATE1,
                                  McConfig(paths=10_000, steps=500,
                                           seed=8100 + 10 * i + j))
            ref = hybrid_call_price(opt, heston(rho), RATE1)
            if abs(est.mean - ref) > 3.0 * est.std_error:
                misses += 1
    ok = misses <= 1
    assert report(2, "hybrid formula vs average-rate mc", ok), misses


def test_criterion_3_price_via_density_cross_route():
    worst = 0.0
    for rho in RHOS:
        for k in STRIKES:
            opt = VanillaOption(S0, k, T)
            direct = heston_call_price(opt, heston(rho), 0.03)
            via = price_via_density(opt, heston(rho), 0.03)
            worst = max(worst, abs(via - direct) / abs(direct))
    ok = worst <= 1e-5
    assert report(3, "density-route price consistency", ok), worst


def test_criterion_4_cir_bond_vs_textbook():
    worst = 0.0
    for rp in (RATE1, RATE2):
        gamma = math.sqrt(rp.kappa_r ** 2 + 2.0 * rp.sigma_r ** 2)
        for t in (0.5, 1.0, 5.0, 30.0):
            denom = ((gamma + rp.kappa_r) * math.expm1(gamma * t)
                     + 2.0 * gamma)
            a = (2.0 * gamma * math.exp((rp.kappa_r + gamma) * t / 2.0)
                 / denom) ** (2.0 * rp.kappa_r * rp.theta_r
                              / rp.sigma_r ** 2)
            b = 2.0 * math.expm1(gamma * t) / denom
            ref = a * math.exp(-b * rp.r0)
            worst = max(worst, abs(cir_bond_price(rp, t) - ref))
    ok = worst <= 1e-10
    assert report(4, "cir bond vs textbook closed form", ok), worst


def test_criterion_5_parity_suites():
    tol = 10.0 * 1e-9  # ten times the quadrature absolute tolerance
    worst = 0.0
    for rho in RHOS:
        for k in STRIKES:
            call_o = VanillaOption(S0, k, T, "call")
            put_o = VanillaOption(S0, k, T, "put")
            for r in (0.03, 0.035):
                gap = (heston_call_price(call_o, heston(rho, mu=r), r)
                       - heston_call_price(put_o, heston(rho, mu=r), r)
                       - (S0 - k * math.exp(-r * T)))
                worst = max(worst, abs(gap))
            for rp in (RATE1, RATE2):
                gap = (hybrid_call_price(call_o, heston(rho), rp)
                       - hybrid_call_price(put_o, heston(rho), rp)
                       - (S0 - k * cir_bond_price(rp, T)))
                worst = max(worst, abs(gap))
    ok = worst <= tol
    assert report(5, "put-call parity suites", ok), worst


def test_criterion_6_limits():
    opt = VanillaOption(S0, 100.0, T)

    from hestoncir import bs_price
    near_bs = heston_call_price(opt, heston(0.0, sigma=1e-6), 0.03)
    gap_a = abs(near_bs - bs_price(opt, 0.03, 0.2)) / bs_price(opt, 0.03,
                                                               0.2)

    rp = CirRateParams(kappa_r=1.8, theta_r=0.03, sigma_r=1e-5, r0=0.035)
    det = heston_call_price(opt, heston(-0.5),
                            deterministic_average_rate(rp, T))
    gap_b = abs(hybrid_call_price(opt, heston(-0.5), rp) - det) / det

    lam = 0.7
    kappa, theta = risk_neutral_map(1.0, 0.04, lam)
    gap_c = (heston_call_price(opt, heston(-0.5, lam=lam), 0.03)
             - heston_call_price(opt, heston(-0.5, kappa=kappa,
                                             theta=theta), 0.03))

    ok = gap_a <= 1e-4 and gap_b <= 1e-4 and gap_c == 0.0
    assert report(6, "degenerate limits (bs, deterministic rate, "
                     "risk-premium map)", ok), (gap_a, gap_b, gap_c)


def test_criterion_7_density_normalization_and_histogram():
    norm_ok = True
    chi2_ok = True
    details = {}
    edges = np.linspace(-0.8, 0.8, 41)
    fine = np.linspace(-0.8, 0.8, 40 * 16 + 1)
    for rho in RHOS:
        p = heston(rho)
        xs = np.linspace(-3.0, 3.0, 4001)
        total = trapezoid(marginal_density_grid(xs, T, p), xs)
        norm_ok &= abs(total - 1.0) <= 1e-6

        dens = marginal_density_grid(fine, T, p)
        probs = np.array([
            trapezoid(dens[i * 16:(i + 1) * 16 + 1],
                      fine[i * 16:(i + 1) * 16 + 1])
            for i in range(40)])
        sample = terminal_logs(0.03, rho)
        counts, _ = np.histogram(sample, edges)
        inside = counts.sum()
        # fold the (tiny) tail mass into an overflow cell so the cell
        # probabilities sum to one
        probs = np.append(probs, max(1.0 - probs.sum(), 1e-12))
        counts = np.append(counts, sample.size - inside)
        expected = sample.size * probs
        stat = float(((counts - expected) ** 2 / expected).sum())
        crit = stats.chi2.ppf(0.99, len(counts) - 1)
        chi2_ok &= stat <= crit
        details[rho] = (total, stat, crit)
    ok = norm_ok and chi2_ok
    assert report(7, "density normalization and mc histogram", ok), details


def test_criterion_8_long_maturity_stability():
    p = heston(-0.5)
    opt = VanillaOption(S0, 100.0, 30.0)
    ls = np.linspace(0.0, 50.0, 2001)[1:]
    vals = price_integrand(ls, opt, p, 0.03)
    smooth = True
    for comp in (vals.real, vals.imag):
        d = np.abs(np.diff(comp))
        floor = 1e-12 * float(np.max(np.abs(comp)))
        for i in range(2, d.size - 2):
            local = 0.25 * (d[i - 2] + d[i - 1] + d[i + 1] + d[i + 2])
            if d[i] > 10.0 * local + floor:
                smooth = False
    price = heston_call_price(opt, p, 0.03)
    bounds = max(S0 - 100.0 * math.exp(-0.03 * 30.0), 0.0) - 1e-9 \
        <= price <= S0
    ok = smooth and bounds
    assert report(8, "long-maturity integrand continuity", ok), price


def test_criterion_9_stochastic_rate_regimes():
    opt = VanillaOption(S0, 100.0, T)
    p = heston(-0.5)
    fast = CirRateParams(kappa_r=50.0, theta_r=0.03, sigma_r=0.1,
                         r0=0.035)
    hyb = hybrid_call_price(opt, p, fast)
    pinned = abs(hyb - heston_call_price(opt, p, fast.theta_r)) \
        < abs(hyb - heston_call_price(opt, p, fast.r0))

    p0 = heston(0.0)
    exits_band = False
    for k in np.linspace(60.0, 140.0, 81):
        o = VanillaOption(S0, float(k), T)
        h = hybrid_call_price(o, p0, RATE2)
        lo_hi = sorted([heston_call_price(o, p0, RATE2.r0),
                        heston_call_price(o, p0, RATE2.theta_r)])
        if h < lo_hi[0] or h > lo_hi[1]:
            exits_band = True
            break
    ok = pinned and exits_band
    assert report(9, "stochastic-rate qualitative regimes", ok), \
        (pinned, exits_band)
