import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from hestoncir import (
    CirRateParams,
    HestonParams,
    VanillaOption,
    bs_price,
    feller_check,
    risk_neutral_map,
)


class TestRiskNeutralMap:
    def test_identity_at_zero_premium(self):
        assert risk_neutral_map(1.0, 0.04, 0.0) == (1.0, 0.04)

    def test_shifted(self):
        kappa, theta = risk_neutral_map(1.0, 0.04, 0.5)
        assert kappa == pytest.approx(1.5, abs=1e-15)
        assert theta == pytest.approx(0.04 / 1.5, abs=1e-15)

    @pytest.mark.parametrize("kappa0", [0.3, 1.0, 4.0])
    @pytest.mark.parametrize("theta0", [0.01, 0.04, 0.2])
    @pytest.mark.parametrize("lam", [-0.2, 0.0, 0.7, 3.0])
    def test_product_invariance(self, kappa0, theta0, lam):
        kappa, theta = risk_neutral_map(kappa0, theta0, lam)
        assert kappa * theta == pytest.approx(kappa0 * theta0, rel=1e-14)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            risk_neutral_map(1.0, 0.04, -1.0)

    def test_nan_premium_names_it(self):
        # "kappa0 + lam <= 0" is false for NaN, which mapped to NaN
        with pytest.raises(ValueError, match="^lam must be finite"):
            risk_neutral_map(1.0, 0.04, math.nan)


class TestFellerCheck:
    def test_baseline_variance_process_satisfies(self, fig1_heston):
        rep = feller_check(fig1_heston)
        assert rep.satisfied
        assert rep.lhs == pytest.approx(0.08)
        assert rep.rhs == pytest.approx(0.04)

    def test_fast_reverting_rate_satisfies(self, fig1_rate):
        assert feller_check(fig1_rate).satisfied

    def test_slow_volatile_rate_violates(self, fig2_rate):
        # 2 * 0.5 * 0.03 = 0.03 < 0.3^2 = 0.09; a diagnostic, not an error
        rep = feller_check(fig2_rate)
        assert not rep.satisfied
        assert rep.lhs == pytest.approx(0.03)
        assert rep.rhs == pytest.approx(0.09)


class TestParameterValidation:
    def test_heston_rejects_bad_values(self):
        with pytest.raises(ValueError):
            HestonParams(mu=0.0, kappa=-1.0, theta=0.04, sigma=0.2,
                         rho=0.0, v0=0.04)
        with pytest.raises(ValueError):
            HestonParams(mu=0.0, kappa=1.0, theta=0.04, sigma=0.2,
                         rho=1.0, v0=0.04)
        with pytest.raises(ValueError):
            HestonParams(mu=0.0, kappa=1.0, theta=-0.04, sigma=0.2,
                         rho=0.0, v0=0.04)

    def test_rate_allows_zero_vol_but_not_negative(self):
        CirRateParams(kappa_r=1.0, theta_r=0.03, sigma_r=0.0, r0=0.03)
        with pytest.raises(ValueError):
            CirRateParams(kappa_r=1.0, theta_r=0.03, sigma_r=-0.1, r0=0.03)

    def test_option_rejects_bad_values(self):
        with pytest.raises(ValueError):
            VanillaOption(s0=100.0, strike=100.0, maturity=0.0)
        with pytest.raises(ValueError):
            VanillaOption(s0=100.0, strike=100.0, maturity=1.0,
                          kind="straddle")

    @pytest.mark.parametrize("cls, field", [
        *[(HestonParams, f) for f in
          ("mu", "kappa", "theta", "sigma", "rho", "v0", "lam")],
        *[(CirRateParams, f) for f in ("kappa_r", "theta_r", "sigma_r", "r0")],
        *[(VanillaOption, f) for f in ("s0", "strike", "maturity")],
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected_by_name(self, cls, field, bad):
        good = {
            HestonParams: dict(mu=0.03, kappa=1.0, theta=0.04, sigma=0.2,
                               rho=-0.5, v0=0.04, lam=0.0),
            CirRateParams: dict(kappa_r=1.8, theta_r=0.03, sigma_r=0.1,
                                r0=0.035),
            VanillaOption: dict(s0=100.0, strike=100.0, maturity=1.0),
        }[cls]
        with pytest.raises(ValueError, match="^%s must be finite" % field):
            cls(**{**good, field: bad})


class TestBlackScholes:
    def test_deep_in_the_money_limit(self):
        opt = VanillaOption(s0=100.0, strike=1e-8, maturity=1.0)
        price = bs_price(opt, r=0.03, vol=0.2)
        assert price == pytest.approx(100.0 - 1e-8 * math.exp(-0.03),
                                      abs=1e-10)

    def test_vanishing_maturity_limit(self):
        opt = VanillaOption(s0=100.0, strike=90.0, maturity=1e-12)
        assert bs_price(opt, r=0.03, vol=0.2) == pytest.approx(10.0,
                                                               abs=1e-9)

    def test_against_lognormal_quadrature_oracle(self):
        # E[(S_T - K)^+] computed by direct Gauss-Legendre quadrature in
        # the terminal normal variate -- no reuse of the cdf-based formula.
        r, vol, t = 0.03, 0.2, 1.0
        opt = VanillaOption(s0=100.0, strike=110.0, maturity=t)
        z_kink = ((math.log(opt.strike / opt.s0)
                   - (r - 0.5 * vol * vol) * t) / (vol * math.sqrt(t)))
        z, w = np.polynomial.legendre.leggauss(200)
        half = 0.5 * (10.0 - z_kink)
        z = z_kink + half * (z + 1.0)  # integrate above the payoff kink only
        w = half * w
        s_t = opt.s0 * np.exp((r - 0.5 * vol * vol) * t
                              + vol * math.sqrt(t) * z)
        payoff = s_t - opt.strike
        pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        oracle = math.exp(-r * t) * float(np.sum(w * pdf * payoff))
        assert bs_price(opt, r, vol) == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("k", [70.0, 90.0, 100.0, 115.0, 140.0])
    @pytest.mark.parametrize("vol", [0.05, 0.2, 0.6])
    def test_put_call_parity(self, k, vol):
        call = bs_price(VanillaOption(100.0, k, 2.0, "call"), 0.03, vol)
        put = bs_price(VanillaOption(100.0, k, 2.0, "put"), 0.03, vol)
        assert call - put == pytest.approx(100.0 - k * math.exp(-0.06),
                                           abs=1e-12)

    def test_monotone_in_strike_and_vol(self):
        strikes = np.linspace(60.0, 140.0, 17)
        calls = [bs_price(VanillaOption(100.0, k, 1.0), 0.03, 0.2)
                 for k in strikes]
        assert all(a > b for a, b in zip(calls, calls[1:]))
        vols = np.linspace(0.05, 0.8, 16)
        by_vol = [bs_price(VanillaOption(100.0, 100.0, 1.0), 0.03, v)
                  for v in vols]
        assert all(a < b for a, b in zip(by_vol, by_vol[1:]))

    @pytest.mark.parametrize("kind", ["call", "put"])
    @pytest.mark.parametrize("k", [70.0, 90.0, 100.0, 115.0, 140.0])
    @pytest.mark.parametrize("vol", [0.1, 0.2, 0.6])
    def test_matches_scipy_normal_cdf(self, kind, k, vol):
        r, t = 0.03, 1.0
        sd = vol * math.sqrt(t)
        d1 = (math.log(100.0 / k) + (r + 0.5 * vol * vol) * t) / sd
        disc = math.exp(-r * t)
        call = 100.0 * norm.cdf(d1) - k * disc * norm.cdf(d1 - sd)
        ref = call if kind == "call" else call - 100.0 + k * disc
        price = bs_price(VanillaOption(100.0, k, t, kind), r, vol)
        assert price == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_negative_vol_rejected(self):
        with pytest.raises(ValueError):
            bs_price(VanillaOption(100.0, 100.0, 1.0), 0.03, -0.1)

    @pytest.mark.parametrize("name, r, vol", [
        ("r", math.nan, 0.2), ("vol", 0.03, math.nan),
        ("vol", 0.03, math.inf)])
    def test_non_finite_argument_names_it(self, name, r, vol):
        # each used to price NaN
        with pytest.raises(ValueError, match="^%s must be finite" % name):
            bs_price(VanillaOption(100.0, 100.0, 1.0), r, vol)


def test_import_does_not_load_scipy():
    # bs_price needs only the normal cdf; scipy would add about a second
    # to every cold start
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, hestoncir; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60, env=env)
    assert out.stdout.strip() == "False"
